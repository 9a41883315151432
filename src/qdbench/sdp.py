"""Dense semidefinite programming over complex Hermitian block variables.

Problem form:

    minimize / maximize   sum_v <C_v, X_v>
    subject to            real-linear equality and two-sided interval
                          constraints on the X_v,
                          affine matrix expressions required PSD,
                          X_v >= 0 (every declared variable block).

``<A, B> = Re Tr(A B)`` for Hermitian A, B.  Every constraint is a block of
real rows on the ``hvec`` coordinates of the variables, in which
``<C, X> = hvec(C) . hvec(X)``; :class:`SDPProblem` stores each variable's
coefficients as arrays of (row, coordinate, value) entries.  An interval
lo <= f <= hi is two 1x1 slack blocks s_lo, s_hi and the rows
``f - s_lo == lo`` and ``s_lo + s_hi == hi - lo``; a PSD constraint is a
slack block S and the rows ``S - sum_i L_i(X_i) == constant``, each L_i given
by its coordinate matrix.  Every constraint adds its rows on a matrix entry
pair by entry pair (:func:`_pair_order`): the diagonal entries, then each
off-diagonal pair's real part followed by its imaginary part.

The solver is a primal-dual interior-point method with Nesterov-Todd scaling
and a Mehrotra predictor-corrector step, run directly on the Hermitian cone.

Hermitian iterates, residuals and directions are held as one (n_b, d, d)
stack per block dimension (a single stack in the block-circulant standard
form, plus one of 1x1 blocks for interval slacks).  A stack's scaling takes
three batched ``eigh`` calls and each of its step lengths one batched
``eigvalsh``, with the per-block rules kept: each block's eigenvalue floor
follows its own largest eigenvalue, a non-finite second-order term is dropped
for its block only, and a non-finite block or failed eigen-solve gives step
0.  A is one CSR matrix over the ``hvec`` coordinates of every stack.

Once per solve, the constraint rows are grouped by the set of blocks larger
than 1x1 each one touches, in a stable order, and ``y`` is mapped back to the
caller's row order, by index arithmetic on the canonical CSR arrays.  Each
block's rows then form a few runs of consecutive Schur indices (in the
block-circulant standard form at most M + 1 for an E_k block, one for an F_k
or PSD slack block, at most two for an interval slack).

Each iteration assembles the Schur complement S into one buffer of m(m+1)/2
doubles, its lower triangle in LAPACK's rectangular full packed storage
(:class:`_Packed`).  Each block's part A_b K A_b^T, for K the (d^2, d^2) matrix
of X -> W X W in ``hvec`` coordinates for its scaling W, is streamed: K is
never formed, only a chunk of its rows at a time (:func:`_congruence_rows`),
and only at the columns the packed triangle stores against those rows, plus
those the block's rows with several entries read.  Rows with one entry gather
their part from each chunk, and the few rows with several entries are added
as a border at the end (:class:`_SchurTerm`); blocks whose rows are equal up
to one sign share one stream over their stacked W.  With its rows pair by
pair, a chunked complex block stores a triangle of entry pairs, so a chunk
forms about half of K's columns.  A solve's largest array is thus the packed
S, next to chunks of about ``K_CHUNK`` entries.  S is factored once per
iteration, in place, by ``dpftrf`` with a ladder of diagonal jitters
(:func:`_factor_schur`); the predictor and corrector share it through
``dpftrs``.  At a fixed BLAS/OpenMP thread count all arithmetic is
deterministic: identical problems and configuration reproduce bit-identical
iterate sequences, whatever ``K_CHUNK`` and ``DIAG_STRIP``, since every entry
of S sums the same products in the same order however the chunks and strips
cut it.  Another thread count may change the order of BLAS sums, and a solve
that stalls can then stop at another iterate.

A problem invariant under complex conjugation (:func:`_real_rows`) is solved
over real symmetric blocks: its stacks are real, K and A keep the first
d(d+1)/2 ``hvec`` coordinates of each block, the rows on imaginary parts are
dropped and ``y`` is zero there.  Any other problem is solved as it is.

Reported per-iteration dual objectives are the gap-consistent estimate
``<c, x> - <x, s>``.  It is a lower bound on the optimum only at a primal- and
dual-feasible iterate, where it equals ``b . y``; elsewhere it is an estimate.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    "mask_matrix",
    "block_swap_matrix",
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
    """Cached (diag, iu, ju, pair_index) of a d x d matrix's diagonal and strict upper triangle."""
    meta = _HVEC_CACHE.get(d)
    if meta is None:
        iu, ju = np.triu_indices(d, k=1)
        pair_index = -np.ones((d, d), dtype=int)
        pair_index[iu, ju] = np.arange(iu.size)
        meta = (np.arange(d), iu, ju, pair_index)
        _HVEC_CACHE[d] = meta
    return meta


def hvec(a: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix: length d^2, isometric for <.,.>."""
    a = np.asarray(a)
    _, iu, ju, _ = _hvec_meta(a.shape[-1])
    return np.concatenate((_svec(a), math.sqrt(2.0) * np.imag(a[..., iu, ju])), axis=-1)


def hmat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hvec`."""
    v = np.asarray(v, dtype=float)
    dg, iu, ju, _ = _hvec_meta(d)
    npair = iu.size
    a = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    a[..., dg, dg] = v[..., :d]
    off = (v[..., d:d + npair] + 1j * v[..., d + npair:]) / math.sqrt(2.0)
    a[..., iu, ju] = off
    a[..., ju, iu] = off.conj()
    return a


def _svec(a: np.ndarray) -> np.ndarray:
    """The first d(d+1)/2 :func:`hvec` coordinates: all of a real symmetric matrix's."""
    dg, iu, ju, _ = _hvec_meta(a.shape[-1])
    return np.concatenate((np.real(a[..., dg, dg]), math.sqrt(2.0) * np.real(a[..., iu, ju])),
                          axis=-1)


def _smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_svec`."""
    dg, iu, ju, _ = _hvec_meta(d)
    a = np.zeros(v.shape[:-1] + (d, d))
    a[..., dg, dg] = v[..., :d]
    a[..., iu, ju] = a[..., ju, iu] = v[..., d:] / math.sqrt(2.0)
    return a


def _pair_order(d: int) -> np.ndarray:
    """The hvec coordinates of a d x d matrix entry pair by entry pair: the
    diagonal ones, then each off-diagonal pair's real part followed by its
    imaginary part.  Every constraint's rows on a matrix follow this order."""
    off = d + np.arange(d * (d - 1) // 2)
    return np.concatenate([np.arange(d), np.stack([off, off + off.size], axis=1).ravel()])


def _entry_pairs(d: int):
    """Entry pairs (i, j), i <= j, of a d x d matrix that carry its hvec
    coordinates: pair g < d is the diagonal entry (g, g), pair d + p the p-th
    entry of the strict upper triangle.  Coordinate c belongs to pair c, or
    to pair c - d(d-1)/2 if it is an imaginary part."""
    dg, iu, ju, _ = _hvec_meta(d)
    return np.concatenate([dg, iu]), np.concatenate([dg, ju])


def _congruence_rows(ws: np.ndarray, rows, cols) -> np.ndarray:
    """Rows of K, the real symmetric matrix of X -> sum_n W_n X W_n in hvec
    coordinates for a (n, d, d) stack of Hermitian W_n, at chosen columns.

    ``rows`` = (i, j) and ``cols`` = (k, l) are arrays of entry pairs, i <= j
    and k <= l (:func:`_entry_pairs`), the diagonal ones first.  Rows and columns of the
    result follow the pairs in the given order: a diagonal pair's diagonal
    coordinate, an off-diagonal pair's real part and, for a complex stack,
    its imaginary part right after it.

    Entry (a, b) of K is <E_a, W E_b W> for the orthonormal Hermitian basis
    E_a = hmat(e_a), a product of two entries of W.  For pairs p = (i, j) and
    q = (k, l), let A = W_ik W_lj and B = W_il W_kj, summed over the W_n; the
    (real, imaginary) rows of p against the (real, imaginary) columns of q are
    [[Re(A + B), Im(B - A)], [Im(A + B), Re(A - B)]], times 1/sqrt2 for each
    diagonal pair among p and q, so one set of products gives both rows of a
    pair.  As W is Hermitian, W_lj = conj(W_jl), so A and B multiply rows i
    and conj(rows j) of W gathered at the columns k and l.  For a real stack
    the imaginary parts vanish and K splits into the real and imaginary
    coordinate groups; only the real group is formed.
    """
    (ri, rj), (ck, cl) = rows, cols
    dr, dc = np.count_nonzero(ri == rj), np.count_nonzero(ck == cl)
    wi, wj = ws[:, ri], ws[:, rj].conj()                        # W_ix, W_xj
    a = wi[0][:, ck] * wj[0][:, cl]
    b = wi[0][dr:, cl[dc:]] * wj[0][dr:, ck[dc:]]
    for t in range(1, ws.shape[0]):
        a += wi[t][:, ck] * wj[t][:, cl]
        b += wi[t][dr:, cl[dc:]] * wj[t][dr:, ck[dc:]]
    nr, nc = a.shape
    complex_stack = np.iscomplexobj(ws)
    out = np.empty((2 * nr - dr, 2 * nc - dc) if complex_stack else (nr, nc))
    # Real parts of the off-diagonal row pairs and column pairs, and their
    # imaginary parts interleaved with them.
    step = 2 if complex_stack else 1
    re, im = slice(dr, None, step), slice(dr + 1, None, 2)
    re_c, im_c = slice(dc, None, step), slice(dc + 1, None, 2)
    off = a[dr:, dc:]
    np.add(off.real, b.real, out=out[re, re_c])
    # B = conj(A) on a diagonal row and B = A on a diagonal column, so those
    # entries need A alone: sqrt2 Re A (and -sqrt2 Im A, sqrt2 Im A), and
    # |W_xy|^2 where both pairs are diagonal.
    sqrt2 = math.sqrt(2.0)
    np.multiply(a.real[:dr, dc:], sqrt2, out=out[:dr, re_c])
    np.multiply(a.real[dr:, :dc], sqrt2, out=out[re, :dc])
    out[:dr, :dc] = a.real[:dr, :dc]
    if complex_stack:
        np.subtract(b.imag, off.imag, out=out[re, im_c])
        np.add(off.imag, b.imag, out=out[im, re_c])
        np.subtract(off.real, b.real, out=out[im, im_c])
        np.multiply(a.imag[:dr, dc:], -sqrt2, out=out[:dr, im_c])
        np.multiply(a.imag[dr:, :dc], sqrt2, out=out[im, :dc])
    return out


# ---------------------------------------------------------------------------
# Coordinate matrices of linear maps (terms of PSD constraints)
# ---------------------------------------------------------------------------


def mask_matrix(mask: np.ndarray) -> sp.csr_matrix:
    """hvec-coordinate matrix of X -> mask o X (entrywise) for a real
    symmetric mask: diagonal, which keeps the constraint rows sparse."""
    mask = np.asarray(mask, dtype=float)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1] or np.any(mask != mask.T):
        raise SDPError(f"Hadamard mask must be square and symmetric, got shape {mask.shape}")
    _, iu, ju, _ = _hvec_meta(mask.shape[0])
    diag = np.concatenate([np.diag(mask), mask[iu, ju], mask[iu, ju]])
    cols = np.flatnonzero(diag)
    return sp.csr_matrix((diag[cols], cols, np.searchsorted(cols, np.arange(diag.size + 1))),
                         shape=(diag.size, diag.size))


def block_swap_matrix(m: int, d: int) -> sp.csr_matrix:
    """hvec-coordinate matrix of the partial transpose on the register factor
    of an (m*d) x (m*d) matrix: sub-block (k, l) of the output is sub-block
    (l, k) of the input.  A signed permutation: entry (a, b) of the output is
    entry (s, t) of the input, a diagonal entry stays in place, and the
    imaginary part of a pair flips sign when s > t."""
    n = m * d
    _, iu, ju, pair_index = _hvec_meta(n)
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

    def __post_init__(self):
        it, tol = self.max_iter, self.tol
        if isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it < 1:
            raise SDPError(f"SDPConfig.max_iter must be an integer >= 1, got {it!r}")
        if isinstance(tol, bool) or not isinstance(tol, (int, float, np.floating)) \
                or not (math.isfinite(tol) and tol > 0):
            raise SDPError(f"SDPConfig.tol must be finite and positive, got {tol!r}")


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
    # Rows of the Schur matrix the solver factors (after the real reduction),
    # and its failed Cholesky attempts over all iterations.
    schur_rows: int = 0
    factor_failures: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is SDPStatus.OPTIMAL


def _check_hermitian_coeff(name, mat, dim, where="objective"):
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        raise SDPError(f"coefficient for variable '{name}' must be {dim}x{dim}, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise SDPError(f"{where} has a non-finite coefficient for variable '{name}'")
    if mat.size and float(np.max(np.abs(mat - mat.conj().T))) > 1e-10:
        raise SDPError(f"coefficient for variable '{name}' is not Hermitian")
    return (mat + mat.conj().T) / 2.0


class SDPProblem:
    """Incrementally built SDP over named Hermitian PSD variable blocks.

    Each ``add_*`` method forms its rows with array operations and appends
    them through :meth:`_add_rows`: their targets and, per variable, numpy
    arrays of (row, ``hvec`` coordinate, value) for every nonzero coefficient
    (``<C, X> = hvec(C) . hvec(X)``).  Rows keep the order in which they were
    added, and :meth:`canonicalize` concatenates each variable's entries into
    one CSR matrix.  A variable is checked when a constraint names it, so an
    unknown one fails at add time.
    """

    def __init__(self):
        self._var_dims: dict[str, int] = {}   # in declaration order
        self._objective: dict[str, np.ndarray] = {}
        self._maximize = False
        self._entries: dict[str, list] = {}   # per variable: (rows, coords, values) arrays
        self._targets: list[np.ndarray] = []
        self._n_rows = 0
        self._n_psd = 0
        self._n_interval = 0

    # -- variables -----------------------------------------------------------

    def add_variable(self, name: str, dim: int) -> None:
        """Declare a Hermitian PSD block of the given dimension."""
        if name in self._var_dims:
            raise SDPError(f"variable '{name}' already declared")
        if dim < 1:
            raise SDPError(f"variable '{name}' must have dimension >= 1")
        self._var_dims[name] = int(dim)
        self._entries[name] = []

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

    # -- constraints -----------------------------------------------------------

    def _add_rows(self, entries: dict, targets, label=None) -> None:
        """Append rows, given their targets and, per variable, the (row,
        coordinate, value) arrays of their nonzero coefficients, by row counted
        from the first new one and then by coordinate.  A NaN or infinite
        target or coefficient raises, naming the constraint, and adds nothing."""
        targets = np.asarray(targets, dtype=float)
        if not np.all(np.isfinite(targets)):
            raise SDPError(f"constraint {label or ''} has a non-finite target")
        for var, (_, _, vals) in entries.items():
            if not np.all(np.isfinite(vals)):
                raise SDPError(f"constraint {label or ''} has a non-finite coefficient "
                               f"for variable '{var}'")
        for var, (rows, coords, vals) in entries.items():
            self._entries[var].append((self._n_rows + rows, coords, vals))
        self._targets.append(targets)
        self._n_rows += targets.size

    def _hvec_row(self, coeffs: dict, label) -> dict:
        where = f"constraint {label or ''}"
        rows = {var: hvec(_check_hermitian_coeff(var, mat, self.variable_dim(var), where))
                for var, mat in coeffs.items()}
        return {var: (np.zeros(np.count_nonzero(r), dtype=int), np.flatnonzero(r), r[r != 0])
                for var, r in rows.items()}

    def add_equality(self, coeffs: dict, target: float, label=None) -> None:
        """sum_v <coeff_v, X_v> == target."""
        self._add_rows(self._hvec_row(coeffs, label), [target], label)

    def add_interval(self, coeffs: dict, lower: float, upper: float, label=None) -> None:
        """lower <= sum_v <coeff_v, X_v> <= upper.

        For lower < upper, adds two 1x1 slack blocks s_lo, s_hi and the rows
        f - s_lo == lower and s_lo + s_hi == upper - lower; lower == upper is
        the equality f == lower.
        """
        if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
            raise SDPError(f"interval constraint {label or ''} needs finite lower <= upper, "
                           f"got [{lower}, {upper}]")
        if lower == upper:
            self.add_equality(coeffs, lower, label)
            return
        row = self._hvec_row(coeffs, label)
        s_lo, s_hi = (f"_interval_slack_{self._n_interval}_{side}" for side in ("lo", "hi"))
        self.add_variable(s_lo, 1)
        self.add_variable(s_hi, 1)
        self._n_interval += 1
        zero = np.zeros(1, dtype=int)
        one = (zero, zero, np.ones(1))
        self._add_rows({**row, s_lo: (zero, zero, -np.ones(1))}, [lower], label)
        self._add_rows({s_lo: one, s_hi: one}, [float(upper) - float(lower)], label)

    def add_entry_equalities(self, names, target: np.ndarray, offset: int = 0,
                             label=None) -> None:
        """Entrywise: sum_v X_v[offset:offset+t, offset:offset+t] == target over
        the variables ``names``, for a Hermitian t x t target.

        Adds t^2 rows in entry-pair order (:func:`_pair_order`): the t
        diagonal entries, then the real and imaginary parts of each entry of
        the target's strict upper triangle.
        """
        target = np.asarray(target, dtype=complex)
        t = target.shape[0]
        if target.shape != (t, t):
            raise SDPError(f"entrywise target {label or ''} must be square, got {target.shape}")
        if not np.all(np.isfinite(target)):
            raise SDPError(f"constraint {label or ''} has a non-finite target")
        if float(np.max(np.abs(target - target.conj().T))) > 1e-9:
            raise SDPError(f"entrywise target {label or ''} is not Hermitian")
        dg, iu, ju, _ = _hvec_meta(t)
        order, rows = _pair_order(t), np.arange(t * t)
        vals = np.concatenate([np.ones(t), np.full(t * t - t, 1.0 / math.sqrt(2.0))])
        entries = {}
        for var in names:
            d = self.variable_dim(var)
            if offset < 0 or offset + t > d:
                raise SDPError(f"entrywise pin {label or ''} of size {t} at offset {offset} "
                               f"runs past variable '{var}' of dimension {d}")
            *_, pair_index = _hvec_meta(d)
            p = pair_index[offset + iu, offset + ju]
            cols = np.concatenate([offset + dg, d + p, d + d * (d - 1) // 2 + p])
            entries[var] = (rows, cols[order], vals)
        targets = np.concatenate([target.diagonal().real, target[iu, ju].real,
                                  target[iu, ju].imag])
        self._add_rows(entries, targets[order], label)

    def add_psd_constraint(self, terms, constant=None, label=None) -> str:
        """Require  constant + sum_i L_i(X_{v_i})  to be PSD.

        ``terms`` is a list of (variable name, coordinate matrix): the sparse
        (dout^2, d_v^2) matrix of L_i in hvec coordinates.  Adds a slack block
        S and the dout^2 rows  S - sum_i L_i(X_{v_i}) == constant, one per
        hvec coordinate of the output in entry-pair order (:func:`_pair_order`),
        as :meth:`add_entry_equalities` adds its rows; a variable's terms are
        summed in order and zeros not stored.  Returns the slack's name.
        """
        if not terms and constant is None:
            raise SDPError(f"PSD constraint {label or ''} is empty")
        sizes = {cm.shape[0] for _, cm in terms}
        if constant is not None:
            constant = np.asarray(constant, dtype=complex)
            sizes.add(constant.shape[0] ** 2)
        dout = math.isqrt(max(sizes))
        if len(sizes) != 1 or dout * dout != max(sizes):
            raise SDPError(f"PSD constraint {label or ''} needs one output dimension, "
                           f"got hvec sizes {sorted(sizes)}")
        n, order = dout * dout, _pair_order(dout)
        row_of = np.argsort(order)      # the row of each output coordinate
        parts = {}
        for var, cm in terms:
            d = self.variable_dim(var)
            if cm.shape[1] != d * d:
                raise SDPError(f"PSD constraint {label or ''}: matrix for '{var}' expects "
                               f"dimension {math.sqrt(cm.shape[1]):g}, variable has {d}")
            cm = cm.tocsr()
            if not cm.has_canonical_format:      # repeated entries: sum them as scipy does
                cm = cm.copy()
                cm.sum_duplicates()
            parts.setdefault(var, []).append(cm)
        if constant is None:
            constant = np.zeros((dout, dout))
        if not np.all(np.isfinite(constant)):
            raise SDPError(f"PSD constraint {label or ''} has a non-finite constant")
        target = hvec(_check_hermitian_coeff(label or "psd-constant", constant, dout))
        slack = f"_psd_slack_{self._n_psd}"
        self.add_variable(slack, dout)
        self._n_psd += 1
        entries = {slack: (np.arange(n), order, np.ones(n))}
        for var, mats in parts.items():
            # Each entry's key sorts it by row and then coordinate; -L sums
            # the terms in order, one per pass, as they hold no repeats.
            n_coord = self._var_dims[var] ** 2
            keys, at = np.unique(np.concatenate(
                [row_of[np.repeat(np.arange(n), np.diff(cm.indptr))] * n_coord + cm.indices
                 for cm in mats]), return_inverse=True)
            vals, lo = np.zeros(keys.size), 0
            for cm in mats:
                vals[at[lo:lo + cm.nnz]] -= cm.data
                lo += cm.nnz
            keys, vals = keys[vals != 0], vals[vals != 0]
            entries[var] = (keys // n_coord, keys % n_coord, vals)
        self._add_rows(entries, target[order], label)
        return slack

    # -- canonicalization ------------------------------------------------------

    def canonicalize(self) -> "CanonicalSDP":
        """Concatenate each variable's entries into one CSR matrix."""
        if not self._var_dims:
            raise SDPError("problem has no variables")
        m = self._n_rows
        sign = -1.0 if self._maximize else 1.0
        a_blocks, c_blocks, none = [], [], np.zeros(0, dtype=int)
        for name, d in self._var_dims.items():
            rows, cols, vals = map(np.concatenate,
                                   zip((none, none, np.zeros(0)), *self._entries[name]))
            indptr = np.searchsorted(rows, np.arange(m + 1))
            a_blocks.append(sp.csr_matrix((vals, cols, indptr), shape=(m, d * d)))
            coeff = self._objective.get(name)
            c_blocks.append(sign * hvec(coeff) if coeff is not None else np.zeros(d * d))

        return CanonicalSDP(
            block_names=list(self._var_dims),
            block_dims=list(self._var_dims.values()),
            a_blocks=a_blocks,
            c_blocks=c_blocks,
            b=np.concatenate([np.zeros(0)] + self._targets),
            maximize=self._maximize,
        )

    def solve(self, config: SDPConfig | None = None) -> SDPSolution:
        return solve(self, config)


@dataclass
class CanonicalSDP:
    """Self-describing canonical form: min <c,x>, A x = b, x in PSD^k."""

    block_names: list
    block_dims: list
    a_blocks: list
    c_blocks: list
    b: np.ndarray
    maximize: bool


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


def _step_lengths(scalings, dx_m, ds_m):
    """Primal and dual step lengths to the boundary over every stack."""
    ap = min(_psd_step_length(sc.x_isqrt, dx) for sc, dx in zip(scalings, dx_m))
    ad = min(_psd_step_length(sc.s_isqrt, ds) for sc, ds in zip(scalings, ds_m))
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


def _real_rows(canon):
    """The rows on real coordinates of a problem invariant under complex
    conjugation, else None.  A block's first d(d+1)/2 hvec coordinates (its
    diagonal and the real parts of its pairs) are symmetric, the imaginary
    parts antisymmetric.  No row may mix the two groups, every antisymmetric
    row must pin its functional to 0.0 and the objective must be symmetric;
    the real part of a feasible point is then feasible with the same
    objective, so the minimum over real symmetric blocks is the minimum.
    """
    b = canon.b
    sym = np.zeros(b.size, dtype=bool)
    anti = np.zeros_like(sym)
    for a, c, d in zip(canon.a_blocks, canon.c_blocks, canon.block_dims):
        ns, a = d * (d + 1) // 2, a.tocsr()
        if np.any(c[ns:]):
            return None
        row = np.repeat(np.arange(b.size), np.diff(a.indptr))
        hit = a.indices >= ns
        anti[row[hit]] = True
        sym[row[~hit]] = True
    if np.any(sym & anti) or np.any(b[anti] != 0.0):
        return None
    return np.flatnonzero(~anti)


def _row_order(counts, dims):
    """Permutation that groups the rows by the set of blocks larger than 1x1
    each one touches, given each block's entry count per row.

    Groups keep the order of their first row and rows keep their order within
    a group (a stable sort), so a problem whose rows are already grouped gets
    the identity.  An interval's row thus joins the other rows on its
    functional's blocks, and its slack-only row the group of rows on no block.
    """
    touched = np.zeros((counts[0].size, len(counts)), dtype=bool)
    for bi, (count, d) in enumerate(zip(counts, dims)):
        if d > 1:
            touched[:, bi] = count > 0
    # Each row's set as one bytes item, so that np.unique sorts items.
    sets = np.packbits(touched, axis=1)
    sets = sets.view(np.dtype((np.void, sets.shape[1]))).ravel()
    _, first, group = np.unique(sets, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    return np.argsort(rank[group.reshape(-1)], kind="stable")


_Rows = namedtuple("_Rows", "indptr indices data")


def _take_rows(a, rows):
    """Rows ``rows`` of a CSR matrix, or of its arrays as :class:`_Rows`."""
    counts = a.indptr[rows + 1] - a.indptr[rows]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    at = np.repeat(a.indptr[rows] - indptr[:-1], counts) + np.arange(indptr[-1])
    return _Rows(indptr, a.indices[at], a.data[at])


def _solver_rows(canon):
    """(real, to_caller, b, c_blocks, blocks): the rows the solver works on,
    on real parts if conjugation invariant (:func:`_real_rows`) and grouped
    (:func:`_row_order`), with to_caller[i] the caller's row i (None if all
    rows are the caller's own) and each block's rows as :class:`_Rows`."""
    dims, b = canon.block_dims, canon.b
    blocks = [a.tocsr() for a in canon.a_blocks]
    to_caller = _real_rows(canon)
    real = to_caller is not None
    rows = to_caller if real else np.arange(b.size)
    c_blocks = [c[:d * (d + 1) // 2] if real else c for c, d in zip(canon.c_blocks, dims)]
    order = _row_order([np.diff(a.indptr)[rows] for a in blocks], dims)
    if not np.array_equal(order, np.arange(rows.size)):
        rows = to_caller = rows[order]
    return real, to_caller, b[rows], c_blocks, [_take_rows(a, rows) for a in blocks]


def _hstack(blocks, widths):
    """The CSR matrix of :class:`_Rows` side by side, of ``widths`` columns
    each: a row holds its entries block by block, as ``sp.hstack`` gives."""
    m = len(blocks[0].indptr) - 1
    at = np.argsort(np.concatenate([np.repeat(np.arange(m), np.diff(blk.indptr))
                                    for blk in blocks]), kind="stable")
    cols = np.concatenate([blk.indices + c for blk, c in zip(blocks, np.cumsum([0, *widths]))])
    data = np.concatenate([blk.data for blk in blocks])
    return sp.csr_matrix((data[at], cols[at], sum(blk.indptr for blk in blocks)),
                         shape=(m, sum(widths)))


# Largest entry count of the K rows a Schur term forms per chunk of entry
# pairs, and of each piece it gathers from them: 1 MB, or chunks of about 40
# of the 820 pairs of a 40x40 block in benchmark_general, M = 4.
K_CHUNK = 1 << 17
# Rows per strip (a masked square and the rectangle beside it) where a piece
# meets the diagonal; one masked square per run made sweep_m2_4 8 % slower.
DIAG_STRIP = 128
_UPPER = np.triu(np.ones((DIAG_STRIP, DIAG_STRIP), dtype=bool))
_LOWER = _UPPER.T


def _index(rows):
    """Runs of consecutive values of sorted unique Schur indices, as pairs of
    (Schur index slice, local index slice)."""
    cuts = [0, *(np.flatnonzero(rows[1:] - rows[:-1] != 1) + 1).tolist(), rows.size]
    return [(slice(int(rows[l]), int(rows[h - 1]) + 1), slice(l, h))
            for l, h in zip(cuts, cuts[1:]) if h > l]


class _Packed:
    """Lower triangle of a symmetric m x m matrix S in LAPACK's rectangular
    full packed storage (TRANSR='N', UPLO='L'): m(m+1)/2 doubles in ``buf``.
    For k = ceil(m/2), S[r, c] sits at ``views[0][r, c]`` for r < k, c >= r,
    and at ``views[1][r - k, c - k]`` for k <= c <= r; both views are
    row-major.  Outside those triangles each view aliases the other, so the
    assembly writes only there (:func:`_scatter_plan`)."""

    def __init__(self, m, buf=None):
        self.m, self.k, self.even = m, (m + 1) // 2, 1 - m % 2
        self.buf = np.zeros(m * (m + 1) // 2) if buf is None else buf
        up = self.buf.reshape((m + self.even, self.k), order="F").T
        self.views = (up[:, self.even:], up[1 - self.even:, :m - self.k])

    def index(self, r, c):
        """Flat index in ``buf`` of S[r, c] for r < k, c >= r, or k <= c <= r."""
        k, e, n = self.k, self.even, self.m + self.even
        return np.where(r < k, r * n + c + e, (r - k + 1 - e) * n + c - k)


def _scatter_plan(runs_i, runs_j, k):
    """Slice adds for ``S[rows_i, rows_j] += part`` on the entries a
    :class:`_Packed` holds, given the runs of both row sets (:func:`_index`)
    and its k: columns from the row on in rows before k, from k up to the row
    after it, so each entry of a symmetric S is written once, from one side.
    Each pair of runs is split at row k, cut to the rows and columns that
    reach the diagonal, and added in strips there."""
    ops = []
    for dst_i, src_i in runs_i:
        for dst_j, src_j in runs_j:
            (p0, p1), di = (dst_i.start, dst_i.stop), dst_i.start - src_i.start
            (q0, q1), dj = (dst_j.start, dst_j.stop), dst_j.start - src_j.start
            # Rows before k: columns c >= r, all of them in rows before q0.
            hi, c0 = min(p1, k, q1), max(q0, p0)
            pieces = [(0, p0, min(hi, c0), c0, q1, True)]
            for r0 in range(c0, hi, DIAG_STRIP):
                r1 = min(r0 + DIAG_STRIP, hi)
                pieces += [(0, r0, r1, r0, r1, _UPPER[:r1 - r0, :r1 - r0]),
                           (0, r0, r1, r1, q1, True)]
            # Rows from k: columns k <= c <= r, all of them in rows from q1.
            c0 = max(q0, k)
            lo, hi = max(p0, c0), min(p1, q1)
            for r0 in range(lo, hi, DIAG_STRIP):
                r1 = min(r0 + DIAG_STRIP, hi)
                pieces += [(1, r0, r1, c0, r0, True),
                           (1, r0, r1, r0, r1, _LOWER[:r1 - r0, :r1 - r0])]
            pieces.append((1, max(lo, q1), p1, c0, q1, True))
            ops += [(v, np.s_[r0 - v * k:r1 - v * k, s0 - v * k:s1 - v * k],
                     np.s_[r0 - di:r1 - di, s0 - dj:s1 - dj], mask)
                    for v, r0, r1, s0, s1, mask in pieces if r0 < r1 and s0 < s1]
    return ops


def _scatter_add(packed, ops, part):
    """``S[rows_i, rows_j] += part`` in a :class:`_Packed`, by a plan from
    :func:`_scatter_plan`."""
    for v, dst, src, mask in ops:
        view = packed.views[v][dst]
        np.add(view, part[src], out=view, where=mask)


def _as_slice(idx):
    """A slice for an index array of consecutive values, else the array."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and np.all(idx[1:] - idx[:-1] == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _pair_of(coords, d):
    """Entry pair (:func:`_entry_pairs` index) of each hvec coordinate of a
    d x d block."""
    npair = d * (d - 1) // 2
    return np.where(coords >= d + npair, coords - npair, coords)


class _SchurTerm:
    """Schur part A K A^T of a block, or of blocks whose rows are equal up to
    one sign (K then sums their congruences), added straight into the packed
    Schur matrix (see the module docstring); K itself is never formed.

    The term walks the entry pairs its rows touch (:func:`_entry_pairs`) a
    chunk at a time, in the order of the first Schur row that reaches them,
    and forms the chunk's rows of K, both rows of a pair from one set of
    products (:func:`_congruence_rows`), only at the columns the packed
    triangle stores against them: those of the single-entry rows from the
    chunk's first Schur row on, or from row k up to its last one when all of
    its rows are at or after k, and those the rows with several entries read.
    A row with a single entry s_p at coordinate c_p adds s_p K[c_p, c_q] s_q,
    against the other single-entry rows q, from the chunk that holds c_p: a
    piece per run of such rows, gathered in row-major order for the view of
    :class:`_Packed` it fills (columns from the run on before row k, from k up
    to the run after it).  For the rows with several entries, each chunk gives
    the columns of A_D K at its coordinates (as rows of K A_D^T), and A_D K is
    added as a border at the end.
    """

    def __init__(self, rows, sub, d, half, real):
        n_coord, kinds = (d * (d + 1) // 2, 1) if real else (d * d, 2)
        npair = d * (d - 1) // 2
        pair_i, pair_j = _entry_pairs(d)
        one = np.diff(sub.indptr) == 1
        starts = sub.indptr[:-1][one]
        s_rows, s_coord, s_val = rows[one], sub.indices[starts], sub.data[starts]
        self.s_val = s_val
        self.unit = bool(s_val.size and np.all(s_val == s_val[0]) and abs(s_val[0]) == 1.0)
        multi, d_rows = _take_rows(sub, np.flatnonzero(~one)), rows[~one]

        # Every entry pair the rows touch, the diagonal ones first and each
        # group in the order of its first row.
        nz_row = np.repeat(rows, np.diff(sub.indptr))
        pairs, first = np.unique(_pair_of(sub.indices, d), return_index=True)
        pairs = pairs[np.lexsort((nz_row[first], pairs >= d))]
        self.n_cols = n_cols = pairs.size + (kinds - 1) * np.count_nonzero(pairs >= d)

        def layout(chunk):
            """Position of each coordinate in the rows (or columns) of K formed
            for the entry pairs ``chunk``; -1 for coordinates elsewhere."""
            at = np.full(d + 2 * npair, -1)
            nd = np.count_nonzero(chunk < d)
            pos = np.arange(chunk.size)
            pos[nd:] = nd + kinds * (pos[nd:] - nd)
            at[chunk] = pos
            at[chunk[nd:] + npair] = pos[nd:] + 1
            return at[:n_coord]

        col_at = layout(pairs)
        self.s_col = _as_slice(col_at[s_coord])
        self.d_sub = sp.csr_matrix((multi.data, col_at[multi.indices], multi.indptr),
                                   shape=(d_rows.size, n_cols)) if d_rows.size else None
        border = np.zeros(d + npair, dtype=bool)
        border[_pair_of(multi.indices, d)] = True
        jk = int(np.searchsorted(s_rows, half))       # first single row at or after k
        # Chunks of about K_CHUNK entries of K rows against all n_cols columns:
        # a diagonal pair has one row, an off-diagonal one ``kinds``.
        k_rows = np.where(pairs < d, 1, kinds)
        in_chunk = (np.cumsum(k_rows) - 1) // max(1, K_CHUNK // n_cols)
        self.chunks = []
        for chunk in np.split(pairs, np.flatnonzero(np.diff(in_chunk)) + 1):
            at = col_at if chunk.size == pairs.size else layout(chunk)
            s_at = at[s_coord]
            held = np.flatnonzero(s_at >= 0)
            # The chunk's columns: the pairs of the single rows the packed
            # triangle stores against the held ones, and the border's pairs.
            need = border.copy()
            if held.size:
                c0, c1 = (held[0], s_rows.size) if held[0] < jk else (jk, held[-1] + 1)
                need[_pair_of(s_coord[c0:c1], d)] = True
            cols = pairs[need[pairs]]
            c_at = col_at if cols.size == pairs.size else layout(cols)
            s_col = c_at[s_coord]
            pieces = []
            cuts = np.flatnonzero((held[1:] - held[:-1] != 1) | (held[1:] == jk)) + 1
            for r0, r1 in zip([0, *cuts.tolist()], [*cuts.tolist(), held.size]):
                if r1 == r0:
                    continue
                i0, i1 = int(held[r0]), int(held[r1 - 1]) + 1
                width = s_rows.size - i0 if i0 < jk else i1 - jk
                step = max(1, K_CHUNK // width)
                for lo in range(i0, i1, step):
                    hi = min(lo + step, i1)
                    c0, c1 = (lo, s_rows.size) if lo < jk else (jk, hi)
                    pieces.append((_as_slice(s_at[lo:hi]), _as_slice(s_col[c0:c1]),
                                   s_val[lo:hi, None], s_val[c0:c1],
                                   _scatter_plan(_index(s_rows[lo:hi]),
                                                 _index(s_rows[c0:c1]), half)))
            held_coords = np.flatnonzero(at >= 0)
            z_at = np.empty(held_coords.size, dtype=int)    # K rows' columns of A_D K
            z_at[at[held_coords]] = col_at[held_coords]
            self.chunks.append(((pair_i[chunk], pair_j[chunk]), (pair_i[cols], pair_j[cols]),
                                c_at[multi.indices], z_at, pieces))
        if d_rows.size:
            d_index, s_index = _index(d_rows), _index(s_rows)
            self.border = (_scatter_plan(d_index, d_index, half),
                           _scatter_plan(d_index, s_index, half),
                           _scatter_plan(s_index, d_index, half))

    def add(self, packed, ws):
        """Add the part for the stack ``ws`` of the blocks' scalings W."""
        d_sub = self.d_sub
        z = None if d_sub is None else np.empty((d_sub.shape[0], self.n_cols))
        # W Hermitian to the last bit makes K exactly symmetric, so no entry
        # of S depends on which of its two rows' chunks forms it.
        ws = (ws + _ct(ws)) / 2.0
        for rows, cols, d_at, z_at, pieces in self.chunks:
            k_rows = _congruence_rows(ws, rows, cols)
            for row_at, col_at, s_r, s_c, plan in pieces:
                piece = k_rows[row_at]
                if isinstance(col_at, slice):
                    piece = piece[:, col_at] if self.unit else piece[:, col_at] * (s_r * s_c)
                else:
                    piece = piece.take(col_at, axis=1)
                    if not self.unit:
                        piece *= s_r * s_c
                _scatter_add(packed, plan, piece)
            if z is not None:
                # Columns z_at of A_D K, as rows z_at of K A_D^T: each entry
                # sums over A_D's entries in order, whatever the chunks.
                terms = k_rows.take(d_at, axis=1)
                terms *= d_sub.data
                z[:, z_at] = np.add.reduceat(terms, d_sub.indptr[:-1], axis=1).T
        if z is None:
            return
        dd_plan, ds_plan, sd_plan = self.border
        _scatter_add(packed, dd_plan, d_sub @ z.T)
        if self.s_val.size:
            ds = z[:, self.s_col] * self.s_val
            _scatter_add(packed, ds_plan, ds)
            _scatter_add(packed, sd_plan, ds.T)


def _schur_terms(blocks, dims, where, real=False):
    """Loop-invariant Schur assembly plan: (g, js, term) for stack g, its
    entries js and the :class:`_SchurTerm` adding their part, over real
    stacks if ``real``, from each block's rows as :class:`_Rows`.  Blocks
    whose rows are equal up to one sign share one stack and one term, keyed
    by (d, rows, columns, coefficients with the sign of the first one).
    """
    terms, shared = [], {}
    half = len(blocks[0].indptr) // 2 if blocks else 0
    for bi, (a, d) in enumerate(zip(blocks, dims)):
        if not a.indptr[-1]:
            continue
        rows = np.flatnonzero(np.diff(a.indptr))
        g, j = where[bi]
        key = (d, rows.tobytes(), a.indices.tobytes(),
               (a.data * np.sign(a.data[0])).tobytes())
        if key in shared:
            shared[key][1].append(j)
            continue
        sub = _Rows(np.append(a.indptr[rows], a.indptr[-1]), a.indices, a.data)
        shared[key] = (g, [j], _SchurTerm(rows, sub, d, half, real))
        terms.append(shared[key])
    return terms


def _factor_schur(assemble):
    """Cholesky-factor the Schur matrix S in place; return ``rhs -> S^{-1} rhs``
    and the number of failed attempts.

    ``assemble()`` returns a fresh :class:`_Packed` S, factored by ``dpftrf``
    and solved with by ``dpftrs``.  Cholesky with escalating diagonal jitter,
    ``lstsq`` on S (unpacked by ``dtfttr``, the only m x m copy) as the last
    resort.  LAPACK overwrites the buffer, so a failed attempt re-assembles it:
    every attempt factors S plus its jitter times the mean diagonal of S.
    """
    packed = assemble()
    m, lapack = packed.m, scipy.linalg.lapack
    if m == 0:
        return np.zeros_like, 0
    diag_at = packed.index(np.arange(m), np.arange(m))
    diag = packed.buf[diag_at]
    diag_scale = float(np.mean(diag)) or 1.0
    for attempt, jitter in enumerate((0.0, 1e-13, 1e-10, 1e-7)):
        if attempt:
            packed = None  # release the failed factor before re-assembling
            packed = assemble()
            packed.buf[diag_at] = diag + jitter * diag_scale
        factor, info = lapack.dpftrf(m, packed.buf, uplo="L", overwrite_a=True)
        if info == 0:
            return (lambda rhs: lapack.dpftrs(m, factor, rhs, uplo="L")[0]), attempt
    packed = None
    low = lapack.dtfttr(m, assemble().buf, uplo="L")[0]
    sym = low + np.tril(low, -1).T
    return (lambda rhs: np.linalg.lstsq(sym, rhs, rcond=None)[0]), attempt + 1


def solve(problem, config: SDPConfig | None = None) -> SDPSolution:
    """Solve an :class:`SDPProblem` or :class:`CanonicalSDP`."""

    cfg = config or SDPConfig()
    canon = problem.canonicalize() if isinstance(problem, SDPProblem) else problem

    dims = canon.block_dims
    # The rows grouped by the blocks they touch, on real parts for a
    # conjugation-invariant problem; y is mapped back to the caller's rows.
    real, to_caller, b, c_blocks, blocks = _solver_rows(canon)
    m = b.shape[0]
    vec, unvec, dtype = (_svec, _smat, float) if real else (hvec, hmat, complex)

    # Blocks of equal dimension form one (n_b, d, d) stack, in order of first
    # appearance; block bi is entry j of stack g for (g, j) = where[bi].  A is
    # one CSR matrix over the hvec coordinates of the stacks.
    groups = {}
    for bi, d in enumerate(dims):
        groups.setdefault(d, []).append(bi)
    groups = list(groups.items())
    where = {bi: (g, j) for g, (_, idx) in enumerate(groups) for j, bi in enumerate(idx)}
    width = {d: d * (d + 1) // 2 if real else d * d for d, _ in groups}
    a_all = _hstack([blocks[bi] for _, idx in groups for bi in idx],
                    [width[d] for d, idx in groups for _ in idx])
    a_all_t = a_all.T
    cuts = np.cumsum([len(idx) * width[d] for d, idx in groups])[:-1]
    c_mats = [unvec(np.stack([c_blocks[bi] for bi in idx]), d) for d, idx in groups]

    terms = _schur_terms(blocks, dims, where, real)

    def a_apply(xs):
        return a_all @ np.concatenate([vec(x).ravel() for x in xs])

    def a_adjoint(y):
        parts = np.split(a_all_t @ y, cuts)
        return [unvec(v.reshape(len(idx), -1), d) for v, (d, idx) in zip(parts, groups)]

    def inner(xs, ss):
        return sum(float(np.vdot(x, s).real) for x, s in zip(xs, ss))

    nu = sum(dims)
    b_norm = 1.0 + float(np.linalg.norm(b))
    c_norm = 1.0 + math.sqrt(inner(c_mats, c_mats))

    # Initial point: identity scaled to the data magnitudes.
    x_scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    s_scale = max([1.0] + [float(np.max(np.abs(cm))) for cm in c_mats])
    xs = [x_scale * np.tile(np.eye(d, dtype=dtype), (len(idx), 1, 1)) for d, idx in groups]
    ss = [s_scale * np.tile(np.eye(d, dtype=dtype), (len(idx), 1, 1)) for d, idx in groups]
    y = np.zeros(m)

    history = []
    factor_failures = 0
    best = None
    stall = 0
    status = SDPStatus.MAX_ITERATIONS
    stop_reason = "max_iter"
    it = 0

    for it in range(1, cfg.max_iter + 1):
        rp = b - a_apply(xs)
        at_mats = a_adjoint(y)
        rd_mats = [cm - am - s for cm, am, s in zip(c_mats, at_mats, ss)]

        gap = inner(xs, ss)
        mu = gap / nu
        pobj = inner(c_mats, xs)
        dobj = float(b @ y)
        pres = float(np.linalg.norm(rp)) / b_norm
        dres = math.sqrt(inner(rd_mats, rd_mats)) / c_norm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        history.append({
            "iteration": it,
            "mu": mu,
            "primal_objective": pobj,
            "dual_objective": pobj - gap,  # gap-consistent; a bound only when feasible
            "dual_objective_raw": dobj,
            "primal_residual": pres,
            "dual_residual": dres,
        })

        score = max(pres, dres, relgap)
        if best is None or score < best[0] * (1.0 - 1e-6):
            best = (score, xs, y, pres, dres, gap)
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
            z = [am + s for am, s in zip(at_mats, ss)]
            if math.sqrt(inner(z, z)) / dobj <= CERT_TOL * c_norm:
                status, stop_reason = SDPStatus.PRIMAL_INFEASIBLE, "primal_infeasible"
                break
        if pobj < 0 and it > 3:
            cert = float(np.linalg.norm(a_apply(xs))) / (-pobj)
            if cert <= CERT_TOL * b_norm:
                status, stop_reason = SDPStatus.DUAL_INFEASIBLE, "dual_infeasible"
                break

        scalings = [_Scaling(x, s) for x, s in zip(xs, ss)]

        def assemble_schur():
            # Schur complement  M[i,j] = <A_i, W A_j W>  summed over blocks:
            # its lower triangle, packed so that _factor_schur factors it in place.
            packed = _Packed(m)
            for g, js, term in terms:
                term.add(packed, scalings[g].w[js])
            return packed

        # The previous factor is freed only here: freed any earlier, its memory
        # goes to this iteration's stacks and the new buffer takes fresh pages.
        solve_schur = None
        solve_schur, failed = _factor_schur(assemble_schur)
        factor_failures += failed

        def newton(rc_mats):
            e_mats = [rc - sc.w @ rd @ sc.w for rc, rd, sc in zip(rc_mats, rd_mats, scalings)]
            dy = solve_schur(rp - a_apply(e_mats))
            dat_mats = a_adjoint(dy)
            dx_mats = [e + sc.w @ da @ sc.w for e, da, sc in zip(e_mats, dat_mats, scalings)]
            ds_mats = [rd - da for rd, da in zip(rd_mats, dat_mats)]
            return ([(a + _ct(a)) / 2.0 for a in dx_mats], dy,
                    [(a + _ct(a)) / 2.0 for a in ds_mats])

        # Predictor.
        dxa_m, _, dsa_m = newton([-x for x in xs])
        if not _all_finite(*dxa_m, *dsa_m):
            stop_reason = "non_finite"
            break
        ap, ad = _step_lengths(scalings, dxa_m, dsa_m)
        mu_aff = max(0.0, inner([x + ap * dx for x, dx in zip(xs, dxa_m)],
                                [s + ad * ds for s, ds in zip(ss, dsa_m)])) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

        # Corrector with the second-order term in the scaled space.
        with np.errstate(over="ignore", invalid="ignore"):
            rc_mats = [sc.corrector_rhs(dxa, dsa, sigma * mu)
                       for sc, dxa, dsa in zip(scalings, dxa_m, dsa_m)]
        if not _all_finite(*rc_mats):
            stop_reason = "non_finite"
            break

        dx_m, dy, ds_m = newton(rc_mats)
        if not _all_finite(*dx_m, *ds_m, dy):
            stop_reason = "non_finite"
            break
        ap, ad = _step_lengths(scalings, dx_m, ds_m)
        ap = STEP_FRACTION * ap
        ad = STEP_FRACTION * ad
        if max(ap, ad) < 1e-12:
            stop_reason = "step_length"
            break  # stalled; report best iterate

        xs = [x + ap * dx for x, dx in zip(xs, dx_m)]
        ss = [s + ad * ds for s, ds in zip(ss, ds_m)]
        y = y + ad * dy

    if status is not SDPStatus.OPTIMAL:
        _, xs, y, pres, dres, gap = best
    if to_caller is not None:
        y_caller = np.zeros(canon.b.shape[0])
        y_caller[to_caller] = y
        y = y_caller

    sign = -1.0 if canon.maximize else 1.0
    return SDPSolution(
        status=status,
        objective=sign * inner(c_mats, xs),
        variables={name: xs[where[bi][0]][where[bi][1]].astype(complex, copy=False)
                   for bi, name in enumerate(canon.block_names)},
        primal_residual=pres,
        dual_residual=dres,
        duality_gap=gap,
        iterations=it,
        y=y,
        history=history,
        stop_reason=stop_reason,
        schur_rows=m,
        factor_failures=factor_failures,
    )
