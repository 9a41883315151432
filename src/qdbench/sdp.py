"""Dense semidefinite programming over complex Hermitian block variables.

Problem form:

    minimize / maximize   sum_v <C_v, X_v>
    subject to            real-linear equality and two-sided interval
                          constraints on the X_v,
                          affine matrix expressions required PSD,
                          X_v >= 0 (every declared variable block).

``<A, B> = Re Tr(A B)`` for Hermitian A, B.  Interval constraints are
canonicalized into pairs of one-sided inequalities with nonnegative slack
variables; PSD constraints get a slack block tied by entry-wise equalities.

The solver is a primal-dual interior-point method with Nesterov-Todd scaling
and a Mehrotra predictor-corrector step, run directly on the Hermitian cone
(1x1 slack entries live in a nonnegative-orthant block).

Hermitian iterates, residuals and directions are held as one (n_b, d, d)
stack per block dimension (a single stack in the block-circulant standard
form); the orthant stays a vector.  A stack's scaling takes three batched
``eigh`` calls and each of its step lengths one batched ``eigvalsh``, with the
per-block rules kept: each block's eigenvalue floor follows its own largest
eigenvalue, a non-finite second-order term is dropped for its block only, and
a non-finite block or failed eigen-solve gives step 0.  A is one CSR matrix
over the ``hvec`` coordinates of every stack and the orthant.

Once per solve, the constraint rows are grouped by the set of Hermitian blocks
each one touches (the orthant is left out): groups keep the order of their
first row and rows keep their order within a group, and ``y`` is mapped back
to the caller's row order.  Each block's rows then form a few runs of
consecutive Schur indices, and its Schur part is added with one slice add per
pair of runs; ``np.ix_`` is left for a block whose runs average fewer than
``MIN_MEAN_RUN`` rows.  In the block-circulant standard form an E_k block has
at most M + 1 runs and an F_k or slack block one; a problem whose rows are
already grouped, such as the general formulation, keeps its order.

Each iteration assembles the dense Schur complement, block by block, straight
into one Fortran-ordered buffer, with no symmetrized copies.  A block with
fewer constraint rows than d^2 conjugates the Hermitian matrices of its rows
by the scaling W.  Any other block uses K, the (d^2, d^2) matrix of
X -> W X W in ``hvec`` coordinates, which ``_congruence_matrix`` builds in
closed form from products of two entries of W (no stack of conjugated basis
matrices); the block's part is A_b K A_b^T.  If every row of A_b holds one
coefficient +-1 (F_k, a PSD slack, tau_minus), that part is a signed gather
of K; blocks with equal rows, columns and relative signs (F_k and its slack)
share one K, of the sum of their congruences, and one gather, skipped for
identity columns.  K is never formed as a stack.  The factored matrix is the
symmetric matrix of the buffer's lower triangle.  It is factored once, in
place, and the predictor and corrector Newton solves share the factor.  The
factorization is a Cholesky with a fixed ladder of diagonal jitters (0,
1e-13, 1e-10, 1e-7 times the mean diagonal), the buffer re-assembled before
each retry, and a ``lstsq`` fallback.  All arithmetic, these included, is
deterministic: identical problems and configuration reproduce bit-identical
iterate sequences.

Reported per-iteration dual objectives are the gap-consistent estimate
``<c, x> - <x, s>``, which is a true lower bound on the primal objective at
every iterate and coincides with ``b . y`` once dual feasibility is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "SDPStatus",
    "SDPConfig",
    "SDPSolution",
    "SDPProblem",
    "CanonicalSDP",
    "SDPError",
    "LinearMatrixMap",
    "ScalarMap",
    "HadamardMaskMap",
    "BlockSwapMap",
    "solve",
    "hvec",
    "hmat",
]


class SDPError(ValueError):
    """Problem construction or validation failure; names the offending part."""


# ---------------------------------------------------------------------------
# Hermitian <-> real coordinate embedding
# ---------------------------------------------------------------------------

_HVEC_CACHE: dict[int, tuple] = {}


def _hvec_meta(d: int):
    """Cached (iu, ju, pair_index) for the strict upper triangle of a d x d matrix."""
    meta = _HVEC_CACHE.get(d)
    if meta is None:
        iu, ju = np.triu_indices(d, k=1)
        pair_index = -np.ones((d, d), dtype=int)
        pair_index[iu, ju] = np.arange(iu.size)
        meta = (iu, ju, pair_index)
        _HVEC_CACHE[d] = meta
    return meta


def hvec(a: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix: length d^2, isometric for <.,.>."""
    a = np.asarray(a)
    d = a.shape[-1]
    iu, ju, _ = _hvec_meta(d)
    sqrt2 = math.sqrt(2.0)
    parts = (
        np.real(a[..., np.arange(d), np.arange(d)]),
        sqrt2 * np.real(a[..., iu, ju]),
        sqrt2 * np.imag(a[..., iu, ju]),
    )
    return np.concatenate(parts, axis=-1)


def hmat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hvec`."""
    v = np.asarray(v, dtype=float)
    iu, ju, _ = _hvec_meta(d)
    npair = iu.size
    lead = v.shape[:-1]
    a = np.zeros(lead + (d, d), dtype=complex)
    a[..., np.arange(d), np.arange(d)] = v[..., :d]
    off = (v[..., d:d + npair] + 1j * v[..., d + npair:]) / math.sqrt(2.0)
    a[..., iu, ju] = off
    a[..., ju, iu] = off.conj()
    return a


def _hermitian_basis(d: int) -> np.ndarray:
    """Stack (d^2, d, d) of the orthonormal Hermitian basis matching hvec order."""
    return hmat(np.eye(d * d), d)


# Products per chunk of pairs in _congruence_matrix: temporaries stay near
# 0.5 MB, where a 40x40 block's whole pair block would take 10 MB each.
K_CHUNK = 1 << 15


def _congruence_matrix(ws: np.ndarray) -> np.ndarray:
    """Real symmetric (d^2, d^2) matrix of X -> sum_n W_n X W_n in hvec
    coordinates, for a (n, d, d) stack of Hermitian W_n.

    Entry (a, b) is <E_a, W E_b W> for the basis of :func:`_hermitian_basis`,
    and every entry is a product of two entries of W.  For pairs p = (i, j),
    q = (k, l), i < j, k < l, let A = W_ik W_lj and B = W_il W_kj, summed over
    the W_n; the (real, imaginary) pair rows of p against the (real,
    imaginary) pair columns of q are [[Re(A + B), Im(B - A)], [Im(A + B),
    Re(A - B)]].  As W is Hermitian, W_lj = conj(W_jl), so A and B multiply
    rows i and conj(rows j) of W gathered at the columns k and l; they are
    formed for a chunk of about ``K_CHUNK`` products at a time.  The diagonal
    rows are |W_xy|^2 and sqrt2 (Re, -Im) of W_xk conj(W_xl); the pair rows'
    diagonal columns are their transposes.
    """
    n, d = ws.shape[0], ws.shape[-1]
    iu, ju, _ = _hvec_meta(d)
    npair = iu.size
    sqrt2 = math.sqrt(2.0)
    dg, re, im = slice(0, d), slice(d, d + npair), slice(d + npair, d * d)
    k = np.empty((d * d, d * d))
    k[dg, dg] = np.sum(ws.real ** 2 + ws.imag ** 2, axis=0)
    z = np.sum(ws[:, :, iu] * ws[:, :, ju].conj(), axis=0)
    k[dg, re] = sqrt2 * z.real
    k[dg, im] = -sqrt2 * z.imag
    k[re, dg] = k[dg, re].T
    k[im, dg] = k[dg, im].T
    step = max(1, K_CHUNK // max(npair, 1))
    for lo in range(0, npair, step):
        hi = min(lo + step, npair)
        wi, wj = ws[:, iu[lo:hi]], ws[:, ju[lo:hi]].conj()     # W_ix, W_xj
        a = wi[0][:, iu] * wj[0][:, ju]
        b = wi[0][:, ju] * wj[0][:, iu]
        for t in range(1, n):
            a += wi[t][:, iu] * wj[t][:, ju]
            b += wi[t][:, ju] * wj[t][:, iu]
        p_re, p_im = slice(d + lo, d + hi), slice(d + npair + lo, d + npair + hi)
        np.add(a.real, b.real, out=k[p_re, re])
        np.subtract(b.imag, a.imag, out=k[p_re, im])
        np.add(a.imag, b.imag, out=k[p_im, re])
        np.subtract(a.real, b.real, out=k[p_im, im])
    return k


# ---------------------------------------------------------------------------
# Linear matrix maps (terms of PSD constraints)
# ---------------------------------------------------------------------------


class LinearMatrixMap:
    """Real-linear map from a Hermitian variable block to a Hermitian output."""

    var_dim: int
    out_dim: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def coordinate_matrix(self) -> sp.csr_matrix:
        """Sparse (out_dim^2, var_dim^2) matrix of the map in hvec coordinates.

        Generic implementation probes the basis; subclasses override with
        closed forms where cheap.
        """
        basis = _hermitian_basis(self.out_dim)
        rows = hvec(np.stack([self.adjoint(b) for b in basis]))
        return sp.csr_matrix(rows)


class ScalarMap(LinearMatrixMap):
    """X -> c * X for a real scalar c."""

    def __init__(self, dim: int, scale: float = 1.0):
        self.var_dim = dim
        self.out_dim = dim
        self.scale = float(scale)

    def apply(self, x):
        return self.scale * x

    def adjoint(self, y):
        return self.scale * y

    def coordinate_matrix(self):
        n = self.out_dim * self.out_dim
        return sp.identity(n, format="csr") * self.scale


class HadamardMaskMap(LinearMatrixMap):
    """X -> mask o X (entrywise) for a real symmetric 0/1-style mask.

    Self-adjoint and diagonal in hvec coordinates, which keeps the
    canonicalized constraint rows sparse.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=float)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise SDPError(f"mask must be square, got {mask.shape}")
        if np.max(np.abs(mask - mask.T)) > 0:
            raise SDPError("Hadamard mask must be symmetric to preserve Hermiticity")
        self.var_dim = mask.shape[0]
        self.out_dim = mask.shape[0]
        self.mask = mask

    def apply(self, x):
        return self.mask * x

    def adjoint(self, y):
        return self.mask * y

    def coordinate_matrix(self):
        d = self.out_dim
        iu, ju, _ = _hvec_meta(d)
        diag = np.concatenate([np.diag(self.mask), self.mask[iu, ju], self.mask[iu, ju]])
        return sp.diags(diag, format="csr")


class BlockSwapMap(LinearMatrixMap):
    """Partial transpose on the register factor of an (m*d) x (m*d) matrix.

    Sub-block (k, l) of the output is sub-block (l, k) of the input.
    Self-adjoint.
    """

    def __init__(self, m: int, d: int):
        self.m = m
        self.d = d
        self.var_dim = m * d
        self.out_dim = m * d

    def apply(self, x):
        m, d = self.m, self.d
        blocks = x.reshape(m, d, m, d)
        return np.transpose(blocks, (2, 1, 0, 3)).reshape(m * d, m * d)

    def adjoint(self, y):
        return self.apply(y)

    def coordinate_matrix(self):
        """Signed permutation: entry (a, b) of the output is entry (s, t) of
        the input, a diagonal entry stays in place, and the imaginary part of
        a pair flips sign when s > t."""
        m, d = self.m, self.d
        n = m * d
        iu, ju, pair_index = _hvec_meta(n)
        npair = iu.size
        s = (ju // d) * d + iu % d
        t = (iu // d) * d + ju % d
        p = pair_index[np.minimum(s, t), np.maximum(s, t)]
        cols = np.concatenate([np.arange(n), n + p, n + npair + p])
        vals = np.concatenate([np.ones(n + npair), np.where(s < t, 1.0, -1.0)])
        return sp.csr_matrix((vals, (np.arange(n * n), cols)), shape=(n * n, n * n))


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


class SDPStatus(str, Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERATIONS = "MaxIterations"


@dataclass
class SDPConfig:
    tol: float = 1e-8
    max_iter: int = 200


@dataclass
class SDPSolution:
    status: SDPStatus
    objective: float
    variables: dict
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iterations: int
    y: np.ndarray
    history: list = field(default_factory=list)
    # Why the iteration stopped: "converged", "max_iter", "stall", "mu_floor",
    # "step_length", "non_finite", "primal_infeasible" or "dual_infeasible".
    stop_reason: str = "max_iter"

    @property
    def optimal(self) -> bool:
        return self.status is SDPStatus.OPTIMAL


def _check_hermitian_coeff(name, mat, dim):
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        raise SDPError(f"coefficient for variable '{name}' must be {dim}x{dim}, got {mat.shape}")
    if mat.size and float(np.max(np.abs(mat - mat.conj().T))) > 1e-10:
        raise SDPError(f"coefficient for variable '{name}' is not Hermitian")
    return (mat + mat.conj().T) / 2.0


class SDPProblem:
    """Incrementally built SDP over named Hermitian PSD variable blocks."""

    def __init__(self):
        self._var_names: list[str] = []
        self._var_dims: dict[str, int] = {}
        self._objective: dict[str, np.ndarray] = {}
        self._maximize = False
        self._rows: list[dict] = []          # sparse rows: {var: (coords, vals)}
        self._row_targets: list[float] = []
        self._row_labels: list = []
        self._intervals: list[tuple[int, float, float]] = []  # (row index, lo, hi)
        self._psd_slacks: list[tuple[str, int]] = []

    # -- variables -----------------------------------------------------------

    def add_variable(self, name: str, dim: int) -> None:
        """Declare a Hermitian PSD block of the given dimension."""
        if name in self._var_dims:
            raise SDPError(f"variable '{name}' already declared")
        if dim < 1:
            raise SDPError(f"variable '{name}' must have dimension >= 1")
        self._var_names.append(name)
        self._var_dims[name] = int(dim)

    def variable_dim(self, name: str) -> int:
        try:
            return self._var_dims[name]
        except KeyError:
            raise SDPError(f"unknown variable '{name}'") from None

    # -- objective -----------------------------------------------------------

    def set_objective(self, coeffs: dict, maximize: bool = False) -> None:
        self._objective = {
            name: _check_hermitian_coeff(name, mat, self.variable_dim(name))
            for name, mat in coeffs.items()
        }
        self._maximize = bool(maximize)

    # -- low-level row builders ----------------------------------------------

    def _new_row(self, target: float, label=None) -> int:
        self._rows.append({})
        self._row_targets.append(float(target))
        self._row_labels.append(label)
        return len(self._rows) - 1

    def _row_add_coords(self, row: int, var: str, coords, vals) -> None:
        """Append the nonzero (coordinate, value) pairs to a row's entry for var."""
        kept = [(int(c), float(v)) for c, v in zip(coords, vals) if v != 0.0]
        if kept:
            entry = self._rows[row].setdefault(var, ([], []))
            entry[0].extend(c for c, _ in kept)
            entry[1].extend(v for _, v in kept)

    def _row_add_dense(self, row: int, var: str, coeff: np.ndarray) -> None:
        coeff = _check_hermitian_coeff(var, coeff, self.variable_dim(var))
        vec = hvec(coeff)
        nz = np.nonzero(vec)[0]
        self._row_add_coords(row, var, nz, vec[nz])

    # -- public constraints ----------------------------------------------------

    def new_equality_row(self, target: float, label=None) -> int:
        """Open an empty equality row; fill it with :meth:`row_add_real_part`."""
        return self._new_row(target, label)

    def row_add_real_part(self, row: int, var: str, i: int, j: int, weight: complex) -> None:
        """Add the term Re(weight * X_ij) to an open row's functional."""
        d = self.variable_dim(var)
        if not (0 <= i < d and 0 <= j < d):
            raise SDPError(f"entry ({i},{j}) out of range for variable '{var}' of dim {d}")
        w = complex(weight)
        _, _, pair_index = _hvec_meta(d)
        npair = d * (d - 1) // 2
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        if i == j:
            # X_ii is real: Re(w X_ii) = Re(w) X_ii
            self._row_add_coords(row, var, [i], [w.real])
            return
        if i < j:
            p = pair_index[i, j]
            coords = [d + p, d + npair + p]
            vals = [w.real * inv_sqrt2, -w.imag * inv_sqrt2]
        else:
            p = pair_index[j, i]
            coords = [d + p, d + npair + p]
            vals = [w.real * inv_sqrt2, w.imag * inv_sqrt2]
        self._row_add_coords(row, var, coords, vals)

    def fix_diagonal_subblock(self, var: str, offset: int, target: np.ndarray,
                              scale: float = 1.0, label=None) -> None:
        """Pin scale * X[offset:offset+t, offset:offset+t] == target entrywise."""
        target = np.asarray(target, dtype=complex)
        t = target.shape[0]
        if target.shape != (t, t):
            raise SDPError(f"subblock target must be square, got {target.shape}")
        if float(np.max(np.abs(target - target.conj().T))) > 1e-9:
            raise SDPError(f"subblock target {label or ''} is not Hermitian")
        for i in range(t):
            row = self._new_row(float(np.real(target[i, i])), label)
            self.row_add_real_part(row, var, offset + i, offset + i, scale)
            for j in range(i + 1, t):
                z = target[i, j]
                row_re = self._new_row(float(z.real), label)
                self.row_add_real_part(row_re, var, offset + i, offset + j, scale)
                row_im = self._new_row(float(z.imag), label)
                self.row_add_real_part(row_im, var, offset + i, offset + j, -1j * scale)

    def add_subblock_trace_equality(self, var: str, block_row: int, block_col: int, d: int,
                                    target: complex, scale: float = 1.0, label=None) -> None:
        """scale * Tr X_sub(block_row, block_col) == target (complex), d x d sub-blocks."""
        target = complex(target)
        row_re = self._new_row(target.real, label)
        for i in range(d):
            self.row_add_real_part(row_re, var, block_row * d + i, block_col * d + i, scale)
        if block_row == block_col:
            if abs(target.imag) > 1e-12:
                raise SDPError(f"diagonal sub-block trace {label or ''} must have a real target")
            return
        row_im = self._new_row(target.imag, label)
        for i in range(d):
            self.row_add_real_part(row_im, var, block_row * d + i, block_col * d + i, -1j * scale)

    def add_equality(self, coeffs: dict, target: float, label=None) -> None:
        """sum_v <coeff_v, X_v> == target."""
        row = self._new_row(target, label)
        for var, mat in coeffs.items():
            self._row_add_dense(row, var, mat)

    def add_interval(self, coeffs: dict, lower: float, upper: float, label=None) -> None:
        """lower <= sum_v <coeff_v, X_v> <= upper."""
        if not (lower <= upper):
            raise SDPError(f"interval constraint {label or ''} has lower {lower} > upper {upper}")
        if lower == upper:
            self.add_equality(coeffs, lower, label=label)
            return
        row = self._new_row(lower, label)
        for var, mat in coeffs.items():
            self._row_add_dense(row, var, mat)
        self._intervals.append((row, float(lower), float(upper)))

    def add_entry_equalities(self, weights: dict, target: np.ndarray, label=None) -> None:
        """Entrywise: sum_v w_v * X_v == target, for real or complex scalars w_v.

        Expands into d^2 sparse rows (diagonal, real and imaginary parts of the
        strict upper triangle).
        """
        dims = {self.variable_dim(v) for v in weights}
        if len(dims) != 1:
            raise SDPError(f"entrywise equality {label or ''} mixes variable dimensions {dims}")
        d = dims.pop()
        target = np.asarray(target, dtype=complex)
        if target.shape != (d, d):
            raise SDPError(f"entrywise target must be {d}x{d}, got {target.shape}")
        if float(np.max(np.abs(target - target.conj().T))) > 1e-9:
            raise SDPError(f"entrywise target {label or ''} is not Hermitian")
        iu, ju, _ = _hvec_meta(d)
        npair = iu.size
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for i in range(d):
            row = self._new_row(float(np.real(target[i, i])), label)
            for var, w in weights.items():
                wr = complex(w)
                if wr.imag != 0.0:
                    raise SDPError("diagonal entries need real weights")
                self._row_add_coords(row, var, [i], [wr.real])
        for p in range(npair):
            i, j = int(iu[p]), int(ju[p])
            t = target[i, j]
            # Re(w X_ij) = Re w Re X_ij - Im w Im X_ij, likewise for Im.
            row_re = self._new_row(float(t.real), label)
            row_im = self._new_row(float(t.imag), label)
            for var, w in weights.items():
                wr = complex(w)
                cr, ci = d + p, d + npair + p
                self._row_add_coords(row_re, var, [cr, ci],
                                     [wr.real * inv_sqrt2, -wr.imag * inv_sqrt2])
                self._row_add_coords(row_im, var, [cr, ci],
                                     [wr.imag * inv_sqrt2, wr.real * inv_sqrt2])

    def add_psd_constraint(self, terms, constant=None, label=None) -> str:
        """Require  constant + sum_i L_i(X_{v_i})  to be PSD.

        ``terms`` is a list of (variable name, LinearMatrixMap).  Returns the
        name of the internal slack block holding the expression value.
        """
        if not terms and constant is None:
            raise SDPError(f"PSD constraint {label or ''} is empty")
        out_dims = set()
        for var, lmap in terms:
            if lmap.var_dim != self.variable_dim(var):
                raise SDPError(
                    f"PSD constraint {label or ''}: map for '{var}' expects dimension "
                    f"{lmap.var_dim}, variable has {self.variable_dim(var)}")
            out_dims.add(lmap.out_dim)
        if constant is not None:
            constant = np.asarray(constant, dtype=complex)
            out_dims.add(constant.shape[0])
        if len(out_dims) != 1:
            raise SDPError(f"PSD constraint {label or ''} mixes output dimensions {out_dims}")
        dout = out_dims.pop()
        if constant is None:
            constant = np.zeros((dout, dout), dtype=complex)
        constant = _check_hermitian_coeff(label or "psd-constant", constant, dout)

        slack = f"_psd_slack_{len(self._psd_slacks)}"
        self.add_variable(slack, dout)
        self._psd_slacks.append((slack, dout))

        target_vec = hvec(constant)
        coord_mats = [(var, lmap.coordinate_matrix().tocsr()) for var, lmap in terms]
        nout = dout * dout
        for r in range(nout):
            row = self._new_row(float(target_vec[r]), label)
            self._row_add_coords(row, slack, [r], [1.0])
            for var, cm in coord_mats:
                lo, hi = cm.indptr[r], cm.indptr[r + 1]
                if hi > lo:
                    self._row_add_coords(row, var, cm.indices[lo:hi], -cm.data[lo:hi])
        return slack

    # -- canonicalization ------------------------------------------------------

    def canonicalize(self) -> "CanonicalSDP":
        self.validate()
        n_slack = 2 * len(self._intervals)
        m = len(self._rows) + len(self._intervals)

        blocks = [(name, self._var_dims[name]) for name in self._var_names]
        c_blocks = []
        sign = -1.0 if self._maximize else 1.0
        for name, d in blocks:
            coeff = self._objective.get(name)
            c_blocks.append(sign * hvec(coeff) if coeff is not None else np.zeros(d * d))
        c_orthant = np.zeros(n_slack)

        b = np.array(self._row_targets + [0.0] * len(self._intervals), dtype=float)
        builders = {name: ([], [], []) for name, _ in blocks}
        orthant_builder = ([], [], [])

        for r, row in enumerate(self._rows):
            for var, (coords, vals) in row.items():
                rr, cc, vv = builders[var]
                rr.extend([r] * len(coords))
                cc.extend(coords)
                vv.extend(vals)
        base = len(self._rows)
        for k, (row, lo, hi) in enumerate(self._intervals):
            s_lo, s_hi = 2 * k, 2 * k + 1
            rr, cc, vv = orthant_builder
            # row already has target lo; append -s_lo so  f - s_lo = lo
            rr.append(row); cc.append(s_lo); vv.append(-1.0)
            # extra row: s_lo + s_hi = hi - lo
            rr.append(base + k); cc.append(s_lo); vv.append(1.0)
            rr.append(base + k); cc.append(s_hi); vv.append(1.0)
            b[base + k] = hi - lo

        a_blocks = []
        for name, d in blocks:
            rr, cc, vv = builders[name]
            a_blocks.append(sp.csr_matrix(
                (np.array(vv, dtype=float), (np.array(rr, dtype=int), np.array(cc, dtype=int))),
                shape=(m, d * d)))
        rr, cc, vv = orthant_builder
        a_orthant = sp.csr_matrix(
            (np.array(vv, dtype=float), (np.array(rr, dtype=int), np.array(cc, dtype=int))),
            shape=(m, n_slack))

        return CanonicalSDP(
            block_names=[name for name, _ in blocks],
            block_dims=[d for _, d in blocks],
            a_blocks=a_blocks,
            c_blocks=c_blocks,
            a_orthant=a_orthant,
            c_orthant=c_orthant,
            b=b,
            maximize=self._maximize,
            row_labels=self._row_labels + [None] * len(self._intervals),
        )

    def validate(self) -> None:
        """Fail fast on structural problems; raises SDPError naming the issue."""
        if not self._var_names:
            raise SDPError("problem has no variables")
        for name in self._objective:
            if name not in self._var_dims:
                raise SDPError(f"objective references unknown variable '{name}'")
        for r, row in enumerate(self._rows):
            for var in row:
                if var not in self._var_dims:
                    label = self._row_labels[r]
                    raise SDPError(f"constraint {label or r} references unknown variable '{var}'")

    def solve(self, config: SDPConfig | None = None) -> SDPSolution:
        return solve(self, config)


@dataclass
class CanonicalSDP:
    """Self-describing canonical form: min <c,x>, A x = b, x in PSD^k x R_+^n."""

    block_names: list
    block_dims: list
    a_blocks: list
    c_blocks: list
    a_orthant: sp.csr_matrix
    c_orthant: np.ndarray
    b: np.ndarray
    maximize: bool
    row_labels: list


# ---------------------------------------------------------------------------
# Interior-point solver
# ---------------------------------------------------------------------------

# Relative size of a Farkas-type certificate that declares infeasibility.
CERT_TOL = 1e-7
# Fraction of the longest feasible step taken towards the cone boundary.
STEP_FRACTION = 0.98


def _ct(a):
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _clipped_eigh(a):
    """Batched ``eigh`` of a stack, each block's eigenvalues floored at 1e-17
    times its own largest one."""
    vals, vecs = np.linalg.eigh(a)
    return np.maximum(vals, np.fmax(1e-250, vals[:, -1:] * 1e-17)), vecs


def _psd_step_length(isqrt, dx):
    """Largest t in (0, 1] with X + t dX >= 0 for every block of a stack, given
    the stack of X^{-1/2}.  A non-finite block or a failed eigen-solve (after
    a per-block ``scipy.linalg.eigvalsh`` retry) gives 0.0."""
    a = isqrt @ dx @ isqrt
    a = (a + _ct(a)) / 2.0
    if not np.all(np.isfinite(a)):
        return 0.0
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        try:
            vals = np.stack([scipy.linalg.eigvalsh(blk, check_finite=False) for blk in a])
        except Exception:
            return 0.0
    # Each block's step min(1, -1/lam_min) is non-decreasing in its lam_min, so
    # the smallest lam_min of the stack gives the stack's step.
    lam_min = float(np.min(vals[:, 0]))
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam_min)


def _orthant_step_length(x, dx):
    neg = dx < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-x[neg] / dx[neg])))


def _step_lengths(scalings, xo, so, dx_m, dx_v, ds_m, ds_v):
    """Primal and dual step lengths to the boundary over every stack and the orthant."""
    ap = min([_psd_step_length(sc.x_isqrt, dx) for sc, dx in zip(scalings, dx_m)]
             + [_orthant_step_length(xo, dx_v)])
    ad = min([_psd_step_length(sc.s_isqrt, ds) for sc, ds in zip(scalings, ds_m)]
             + [_orthant_step_length(so, ds_v)])
    return ap, ad


class _Scaling:
    """Per-iteration Nesterov-Todd scaling data for a stack of Hermitian blocks."""

    __slots__ = ("r", "r_inv", "w", "lam_vecs", "lam_vals", "x_isqrt", "s_isqrt")

    def __init__(self, x, s):
        wx, vx = _clipped_eigh(x)
        sqrt_x = (vx * np.sqrt(wx)[:, None, :]) @ _ct(vx)
        self.x_isqrt = (vx * (1.0 / np.sqrt(wx))[:, None, :]) @ _ct(vx)
        t = sqrt_x @ s @ sqrt_x
        wt, vt = _clipped_eigh((t + _ct(t)) / 2.0)
        q = (wt ** 0.25)[:, None, :]
        self.r = sqrt_x @ (vt * (1.0 / q)) @ _ct(vt)
        self.r_inv = (vt * q) @ _ct(vt) @ self.x_isqrt
        self.w = self.r @ _ct(self.r)
        self.lam_vecs = vt
        self.lam_vals = np.sqrt(wt)
        ws, vs = _clipped_eigh(s)
        self.s_isqrt = (vs * (1.0 / np.sqrt(ws))[:, None, :]) @ _ct(vs)

    def corrector_rhs(self, dxa, dsa, sigma_mu):
        """R (sigma mu Lambda^{-1} - Lambda - U) R^H, with U the symmetrized
        second-order term of the affine directions in the scaled space; a
        block whose U is not finite drops its second-order term."""
        v, lam_vals = self.lam_vecs, self.lam_vals
        lam_inv = (v * (1.0 / lam_vals)[:, None, :]) @ _ct(v)
        lam = (v * lam_vals[:, None, :]) @ _ct(v)
        dxb = self.r_inv @ dxa @ _ct(self.r_inv)
        dsb = _ct(self.r) @ dsa @ self.r
        qt = _ct(v) @ ((dxb @ dsb + dsb @ dxb) / 2.0) @ v
        u = v @ (2.0 * qt / (lam_vals[:, :, None] + lam_vals[:, None, :])) @ _ct(v)
        u[~np.all(np.isfinite(u), axis=(1, 2))] = 0.0
        rc = self.r @ (sigma_mu * lam_inv - lam - u) @ _ct(self.r)
        return (rc + _ct(rc)) / 2.0


def _all_finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _row_order(a_blocks, m):
    """Permutation that groups the rows by the set of blocks each one touches.

    Groups keep the order of their first row and rows keep their order within
    a group (a stable sort), so a problem whose rows are already grouped gets
    the identity.
    """
    touched = np.zeros((m, len(a_blocks)), dtype=bool)
    for bi, a in enumerate(a_blocks):
        touched[:, bi] = np.diff(a.indptr) > 0
    _, first, group = np.unique(touched, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    return np.argsort(rank[group.reshape(-1)], kind="stable")


# A block whose rows average fewer than this many per run of consecutive rows
# is scattered by np.ix_.  Each slice add has a fixed cost of about 2.5 us, so
# R runs cost R^2 of them; on a 2-vCPU x86 VM the two scatters cost the same
# at a mean run of about 16 rows, for blocks of 64 to 520 rows.
MIN_MEAN_RUN = 16


def _row_runs(rows):
    """Runs of consecutive values in sorted unique ``rows``, as pairs of
    (Schur index slice, local index slice)."""
    if not rows.size:
        return []
    cuts = np.flatnonzero(np.diff(rows) != 1) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [rows.size]))
    return [(slice(int(rows[l]), int(rows[h - 1]) + 1), slice(int(l), int(h)))
            for l, h in zip(lo, hi)]


def _scatter_plan(a):
    """For a CSR matrix: the rows holding an entry, those rows of ``a``, and
    their runs, or None in place of the runs where ``np.ix_`` is cheaper."""
    rows = np.flatnonzero(np.diff(a.indptr))
    runs = _row_runs(rows)
    if len(runs) > 1 and rows.size < MIN_MEAN_RUN * len(runs):
        runs = None
    return rows, a[rows], runs


def _scatter_add(schur, rows, runs, part):
    """``schur[rows, rows] += part.T`` for sorted unique ``rows``: one slice
    add per pair of ``runs`` (from :func:`_row_runs`), or an ``np.ix_`` add
    when ``runs`` is None."""
    if runs is None:
        schur[np.ix_(rows, rows)] += part.T
        return
    part_t = part.T
    for dst_i, src_i in runs:
        for dst_j, src_j in runs:
            schur[dst_i, dst_j] += part_t[src_i, src_j]


def _signed_rows(sub):
    """Gather data for a ``sub`` whose rows each hold exactly one coefficient
    +-1, whose Schur part ``sub K sub^T`` is then s_i s_j K[c_i, c_j] for the
    column c_i and sign s_i of row i: the flat index of those entries in K
    (None when c is the identity) and the signs relative to the first row's
    (None when all agree).  None for any other ``sub``."""
    if not (np.all(np.diff(sub.indptr) == 1) and np.all(np.abs(sub.data) == 1.0)):
        return None
    cols, n = sub.indices, sub.shape[1]
    signs = sub.data * sub.data[0]
    index = None if np.array_equal(cols, np.arange(n)) else np.add.outer(cols * n, cols)
    return index, (None if np.all(signs == 1.0) else signs)


def _gather_part(k, index, signs):
    """The Schur part ``K.ravel()[index]`` in C order with the outer product of
    ``signs`` applied, for the output of :func:`_signed_rows`; K itself (no
    copy) for the unsigned identity.  May overwrite ``k``."""
    part = k if index is None else k.ravel()[index]
    if signs is not None:
        part *= signs[:, None]
        part *= signs[None, :]
    return part


def _factor_schur(assemble):
    """Cholesky-factor the Schur matrix in place; return ``rhs -> S^{-1} rhs``.

    ``assemble()`` returns a fresh Fortran-ordered buffer.  The matrix S that
    is factored is the symmetric matrix of the buffer's lower triangle (the
    upper triangle agrees with it only up to rounding and is never read).
    Cholesky with escalating diagonal jitter, ``lstsq`` on S as the last
    resort.  LAPACK overwrites the lower triangle, so a failed attempt
    re-assembles the buffer: every attempt factors S plus its jitter times
    the mean diagonal of S, and nothing else.
    """
    mat = assemble()
    n = mat.shape[0]
    if n == 0:
        return np.zeros_like
    diag = mat.diagonal().copy()
    diag_scale = float(np.mean(diag)) or 1.0
    for attempt, jitter in enumerate((0.0, 1e-13, 1e-10, 1e-7)):
        if attempt:
            mat = None  # release the failed factor before re-assembling
            mat = assemble()
            np.fill_diagonal(mat, diag + jitter * diag_scale)
        try:
            cho = scipy.linalg.cho_factor(mat, lower=True, overwrite_a=True,
                                          check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
        return lambda rhs: scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    mat = None
    low = np.tril(assemble())
    sym = low + np.tril(low, -1).T
    return lambda rhs: np.linalg.lstsq(sym, rhs, rcond=None)[0]


def solve(problem, config: SDPConfig | None = None) -> SDPSolution:
    """Solve an :class:`SDPProblem` or :class:`CanonicalSDP`."""

    cfg = config or SDPConfig()
    canon = problem.canonicalize() if isinstance(problem, SDPProblem) else problem

    dims = canon.block_dims
    n_orth = canon.a_orthant.shape[1]
    m = canon.b.shape[0]
    b = canon.b
    c_orth = canon.c_orthant
    a_blocks = [a.tocsr() for a in canon.a_blocks]
    a_orth = canon.a_orthant.tocsr()
    # The solver works on the rows grouped by the blocks they touch, so that
    # each block's rows form few runs; y is mapped back to the caller's order.
    order = _row_order(a_blocks, m)
    if np.array_equal(order, np.arange(m)):
        order = None
    else:
        a_blocks = [a[order] for a in a_blocks]
        a_orth = a_orth[order]
        b = b[order]

    # Blocks of equal dimension form one (n_b, d, d) stack, in order of first
    # appearance; block bi is entry j of stack g for (g, j) = where[bi].  A is
    # one CSR matrix over the hvec coordinates of the stacks and the orthant.
    groups = {}
    for bi, d in enumerate(dims):
        groups.setdefault(d, []).append(bi)
    groups = list(groups.items())
    where = {bi: (g, j) for g, (_, idx) in enumerate(groups) for j, bi in enumerate(idx)}
    a_all = sp.hstack([a_blocks[bi] for _, idx in groups for bi in idx] + [a_orth],
                      format="csr")
    a_all_t = a_all.T
    cuts = np.cumsum([len(idx) * d * d for d, idx in groups])
    c_mats = [hmat(np.stack([canon.c_blocks[bi] for bi in idx]), d) for d, idx in groups]

    # Loop-invariant Schur assembly data, per block touched by some row: its
    # scatter plan and, on the small-row path, the Hermitian matrices of its
    # rows (None on the K path).  K-path blocks whose rows each hold one
    # coefficient +-1 are keyed by (d, rows, cols, signs) instead: the blocks
    # of one key get one K, of the sum of their congruences, and one gather.
    schur_terms, shared = [], {}
    for bi, (a, d) in enumerate(zip(a_blocks, dims)):
        if not a.nnz:
            continue
        rows, sub, runs = _scatter_plan(a)
        signed = _signed_rows(sub) if rows.size >= d * d else None
        if signed is None:
            mats = hmat(sub.toarray(), d) if rows.size < d * d else None
            schur_terms.append((where[bi], rows, sub, runs, mats))
            continue
        # Equal keys mean equal dimensions, so the members share one stack.
        g, j = where[bi]
        key = (d, rows.tobytes(), sub.indices.tobytes(), (sub.data * sub.data[0]).tobytes())
        shared.setdefault(key, (rows, runs) + signed + (g, []))[-1].append(j)
    orth_rows, orth_sub, orth_runs = _scatter_plan(a_orth)

    nu = sum(dims) + n_orth
    b_norm = 1.0 + float(np.linalg.norm(b))
    c_norm = 1.0 + math.sqrt(
        sum(float(np.vdot(cm, cm).real) for cm in c_mats) + float(c_orth @ c_orth))

    def a_apply(xs, xo):
        return a_all @ np.concatenate([hvec(x).ravel() for x in xs] + [xo])

    def a_adjoint(y):
        parts = np.split(a_all_t @ y, cuts)
        mats = [hmat(v.reshape(len(idx), d * d), d) for v, (d, idx) in zip(parts, groups)]
        return mats, parts[-1]

    def inner(xs, xo, ss, so):
        return sum(float(np.vdot(x, s).real) for x, s in zip(xs, ss)) + float(xo @ so)

    def norm2(mats, vec):
        return sum(float(np.vdot(a, a).real) for a in mats) + float(vec @ vec)

    # Initial point: identity scaled to the data magnitudes.
    x_scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    s_scale = max([1.0] + [float(np.max(np.abs(cm))) for cm in c_mats])
    xs = [x_scale * np.tile(np.eye(d, dtype=complex), (len(idx), 1, 1)) for d, idx in groups]
    ss = [s_scale * np.tile(np.eye(d, dtype=complex), (len(idx), 1, 1)) for d, idx in groups]
    xo = x_scale * np.ones(n_orth)
    so = s_scale * np.ones(n_orth)
    y = np.zeros(m)

    history = []
    best = None
    stall = 0
    status = SDPStatus.MAX_ITERATIONS
    stop_reason = "max_iter"
    it = 0

    for it in range(1, cfg.max_iter + 1):
        rp = b - a_apply(xs, xo)
        at_mats, at_vec = a_adjoint(y)
        rd_mats = [cm - am - s for cm, am, s in zip(c_mats, at_mats, ss)]
        rd_vec = c_orth - at_vec - so

        gap = inner(xs, xo, ss, so)
        mu = gap / nu
        pobj = inner(c_mats, c_orth, xs, xo)
        dobj = float(b @ y)
        pres = float(np.linalg.norm(rp)) / b_norm
        dres = math.sqrt(norm2(rd_mats, rd_vec)) / c_norm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        history.append({
            "iteration": it,
            "mu": mu,
            "primal_objective": pobj,
            "dual_objective": pobj - gap,  # gap-consistent bound, == b.y at feasibility
            "dual_objective_raw": dobj,
            "primal_residual": pres,
            "dual_residual": dres,
        })

        score = max(pres, dres, relgap)
        if best is None or score < best[0] * (1.0 - 1e-6):
            best = (score, [x.copy() for x in xs], xo.copy(),
                    [s.copy() for s in ss], so.copy(), y.copy(),
                    pres, dres, gap)
            stall = 0
        else:
            stall += 1

        if pres <= cfg.tol and dres <= cfg.tol and (relgap <= cfg.tol or gap / nu <= cfg.tol * 1e-2):
            status, stop_reason = SDPStatus.OPTIMAL, "converged"
            break
        # No further progress representable in double precision.
        if stall >= 12:
            stop_reason = "stall"
            break
        if mu < 1e-17 * (1.0 + abs(pobj)):
            stop_reason = "mu_floor"
            break

        # Infeasibility certificates (Farkas-type, on normalized iterates).
        if dobj > 0 and it > 3:
            cert = math.sqrt(norm2([am + s for am, s in zip(at_mats, ss)], at_vec + so)) / dobj
            if cert <= CERT_TOL * c_norm:
                status, stop_reason = SDPStatus.PRIMAL_INFEASIBLE, "primal_infeasible"
                break
        if pobj < 0 and it > 3:
            cert = float(np.linalg.norm(a_apply(xs, xo))) / (-pobj)
            if cert <= CERT_TOL * b_norm:
                status, stop_reason = SDPStatus.DUAL_INFEASIBLE, "dual_infeasible"
                break

        scalings = [_Scaling(x, s) for x, s in zip(xs, ss)]
        w_orth2 = xo / so

        def assemble_schur():
            # Schur complement  M[i,j] = <A_i, W A_j W>  summed over blocks, in
            # Fortran order so that _factor_schur factors it in place.  Each
            # part is symmetric up to rounding, is formed in C order and is
            # added transposed, so a slice add walks both arrays in memory
            # order.  One K is formed per block or shared key, never a stack.
            schur = np.zeros((m, m), order="F")
            for (g, j), rows, sub, runs, mats in schur_terms:
                w = scalings[g].w[j:j + 1]
                if mats is not None:
                    part = sub @ hvec((w @ mats) @ w).T
                else:
                    part = sub @ (sub @ _congruence_matrix(w)).T
                _scatter_add(schur, rows, runs, part)
            for rows, runs, index, signs, g, js in shared.values():
                k = _congruence_matrix(scalings[g].w[js])
                _scatter_add(schur, rows, runs, _gather_part(k, index, signs))
            if orth_rows.size:
                _scatter_add(schur, orth_rows, orth_runs,
                             (orth_sub.multiply(w_orth2) @ orth_sub.T).toarray())
            return schur

        # The previous factor is freed only here: freed any earlier, its memory
        # goes to this iteration's stacks and the new buffer takes fresh pages.
        solve_schur = None
        solve_schur = _factor_schur(assemble_schur)

        def newton(rc_mats, rc_vec):
            e_mats = [rc - sc.w @ rd @ sc.w for rc, rd, sc in zip(rc_mats, rd_mats, scalings)]
            e_vec = rc_vec - w_orth2 * rd_vec
            dy = solve_schur(rp - a_apply(e_mats, e_vec))
            dat_mats, dat_vec = a_adjoint(dy)
            dx_mats = [e + sc.w @ da @ sc.w for e, da, sc in zip(e_mats, dat_mats, scalings)]
            ds_mats = [rd - da for rd, da in zip(rd_mats, dat_mats)]
            return ([(a + _ct(a)) / 2.0 for a in dx_mats], e_vec + w_orth2 * dat_vec, dy,
                    [(a + _ct(a)) / 2.0 for a in ds_mats], rd_vec - dat_vec)

        # Predictor.
        dxa_m, dxa_v, _, dsa_m, dsa_v = newton([-x for x in xs], -xo)
        if not _all_finite(*dxa_m, dxa_v, *dsa_m, dsa_v):
            stop_reason = "non_finite"
            break
        ap, ad = _step_lengths(scalings, xo, so, dxa_m, dxa_v, dsa_m, dsa_v)
        mu_aff = max(0.0, inner([x + ap * dx for x, dx in zip(xs, dxa_m)], xo + ap * dxa_v,
                                [s + ad * ds for s, ds in zip(ss, dsa_m)], so + ad * dsa_v)) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

        # Corrector with the second-order term in the scaled space.
        with np.errstate(over="ignore", invalid="ignore"):
            rc_mats = [sc.corrector_rhs(dxa, dsa, sigma * mu)
                       for sc, dxa, dsa in zip(scalings, dxa_m, dsa_m)]
        rc_vec = sigma * mu / so - xo - dxa_v * dsa_v / so
        if not _all_finite(*rc_mats, rc_vec):
            stop_reason = "non_finite"
            break

        dx_m, dx_v, dy, ds_m, ds_v = newton(rc_mats, rc_vec)
        if not _all_finite(*dx_m, dx_v, *ds_m, ds_v, dy):
            stop_reason = "non_finite"
            break
        ap, ad = _step_lengths(scalings, xo, so, dx_m, dx_v, ds_m, ds_v)
        ap = STEP_FRACTION * ap
        ad = STEP_FRACTION * ad
        if max(ap, ad) < 1e-12:
            stop_reason = "step_length"
            break  # stalled; report best iterate

        xs = [x + ap * dx for x, dx in zip(xs, dx_m)]
        xo = xo + ap * dx_v
        ss = [s + ad * ds for s, ds in zip(ss, ds_m)]
        so = so + ad * ds_v
        y = y + ad * dy

    if status is SDPStatus.OPTIMAL:
        final = (None, xs, xo, ss, so, y, pres, dres, gap)
    else:
        final = best
    _, xs, xo, ss, so, y, pres, dres, gap = final
    if order is not None:
        y_caller = np.empty_like(y)
        y_caller[order] = y
        y = y_caller

    sign = -1.0 if canon.maximize else 1.0
    return SDPSolution(
        status=status,
        objective=sign * inner(c_mats, c_orth, xs, xo),
        variables={name: xs[where[bi][0]][where[bi][1]]
                   for bi, name in enumerate(canon.block_names)},
        primal_residual=pres,
        dual_residual=dres,
        duality_gap=gap,
        iterations=it,
        y=y,
        history=history,
        stop_reason=stop_reason,
    )
